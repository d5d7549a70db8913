"""Tests for the degenerate extension solver and its trace constants."""

import math
import warnings

import numpy as np
import pytest

from conflap.errors import ParameterError
from conflap.extension import (
    d_s_const,
    d_star_const,
    energy_of_extension,
    solve_extension_mode,
    weighted_volume_coefficient,
)
from conflap.params import FracParams
from conflap.sphere import sphere_curvature, vol_sphere


class TestTraceConstants:
    def test_half_order_values(self):
        assert d_s_const(0.5) == pytest.approx(-1.0, abs=1e-14)
        assert d_star_const(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_against_direct_gamma_ratio(self):
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            direct = 2.0 ** (2.0 * s) * math.gamma(s) / math.gamma(-s)
            assert d_s_const(s) == pytest.approx(direct, rel=1e-13)

    def test_signs(self):
        for s in (0.05, 0.25, 0.6, 0.95):
            assert d_s_const(s) < 0.0
            assert d_star_const(s) > 0.0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                d_s_const(bad)


class TestExtensionMode:
    def test_exact_exponential_at_half(self):
        # at s = 1/2 the weight is trivial and U(y) = exp(-xi y)
        sol = solve_extension_mode(FracParams(3, 0.5), 1.3)
        exact = np.exp(-1.3 * sol.mesh)
        assert np.max(np.abs(sol.values - exact)) < 2e-5
        assert sol.dtn == pytest.approx(1.3, rel=1e-4)

    def test_trace_recovers_multiplier(self):
        for s in (0.2, 0.5, 0.8):
            p = FracParams(3, s)
            # the large frequencies need the mesh and the fit to scale with 1/xi
            for xi in (0.5, 1.0, 2.0, 4.0, 1e3, 1e6, 1e12):
                sol = solve_extension_mode(p, xi)
                assert sol.dtn == pytest.approx(xi ** (2.0 * s), rel=1e-3)

    def test_refinement_reduces_error(self):
        for s, xi in ((0.3, 1.0), (0.8, 2.0)):
            p = FracParams(3, s)
            target = xi ** (2.0 * s)
            coarse = abs(solve_extension_mode(p, xi, mesh_size=300).dtn - target)
            fine = abs(solve_extension_mode(p, xi, mesh_size=600).dtn - target)
            assert coarse / fine >= 2.0

    def test_profile_decreases(self):
        sol = solve_extension_mode(FracParams(4, 0.35), 2.0)
        assert np.all(np.diff(sol.values) < 0.0)
        assert sol.values[-1] < 1e-10

    def test_frequency_sign_is_irrelevant(self):
        p = FracParams(3, 0.4)
        assert solve_extension_mode(p, -2.0).dtn == solve_extension_mode(p, 2.0).dtn

    def test_zero_frequency(self):
        sol = solve_extension_mode(FracParams(3, 0.3), 0.0)
        assert sol.dtn == 0.0
        assert np.all(sol.values == 1.0)
        assert energy_of_extension(sol) == 0.0

    def test_validation(self):
        p = FracParams(3, 0.3)
        with pytest.raises(ParameterError):
            solve_extension_mode(p, math.nan)
        with pytest.raises(ParameterError, match="xi\\^2 overflows"):
            solve_extension_mode(p, 1e200)
        with pytest.raises(ParameterError):
            solve_extension_mode(p, 1.0, mesh_size=16)
        with pytest.raises(ParameterError):
            solve_extension_mode(FracParams(3, 1.2), 1.0)

    def test_degenerate_mesh_raises_typed_error(self):
        # at s = 0.005 the grading 1/s = 200 underflows the first mesh nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="s = 0.005, mesh_size = 600"):
                solve_extension_mode(FracParams(3, 0.005), 1.0)

    def test_solution_arrays_frozen(self):
        sol = solve_extension_mode(FracParams(3, 0.4), 1.0)
        with pytest.raises(ValueError):
            sol.values[0] = 2.0


class TestExtensionEnergy:
    def test_collapses_to_boundary_flux(self):
        # summing the quadratic form against the discrete equations leaves
        # only the interface term, an exact identity of the scheme
        for s, xi in ((0.2, 0.7), (0.5, 1.0), (0.8, 3.0)):
            sol = solve_extension_mode(FracParams(3, s), xi)
            energy = energy_of_extension(sol)
            assert energy > 0.0
            assert energy == pytest.approx(-sol.boundary_flux, rel=1e-9)

    def test_weighted_flux_approximates_multiplier(self):
        # the raw interface flux carries the smooth-branch contamination,
        # so the match is much looser than through the fitted trace
        for s, xi in ((0.2, 0.7), (0.5, 1.0), (0.8, 3.0)):
            sol = solve_extension_mode(FracParams(3, s), xi)
            scaled = -d_star_const(s) * sol.boundary_flux
            assert scaled == pytest.approx(xi ** (2.0 * s), rel=5e-2)


def test_weighted_volume_coefficient():
    p = FracParams(3, 0.5)
    value = weighted_volume_coefficient(p, sphere_curvature(p), vol_sphere(3))
    # Q = 1, vol(S^3) = 2 pi^2, d_(1/2) = -1, n/2 - s = 1
    assert value == pytest.approx(-2.0 * math.pi**2, rel=1e-12)
    with pytest.raises(ParameterError):
        weighted_volume_coefficient(p, 1.0, -1.0)
